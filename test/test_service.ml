(* Tests for the rfd-svc/1 serving stack: protocol grammar round-trips,
   the journal-backed result store, and end-to-end daemon behaviour —
   miss/hit byte-identity against a direct Runner run, concurrent
   clients coalescing on one key, restart-from-journal replay, admission
   shedding, client retry-after-shed, and graceful drain. *)

module Protocol = Rfd_service.Protocol
module Store = Rfd_service.Store
module Server = Rfd_service.Server
module Client = Rfd_service.Client
module Journal = Rfd_experiment.Journal
module Runner = Rfd_experiment.Runner
module Sweep = Rfd_experiment.Sweep

let small_spec ?(seed = 42) ?(pulses = 1) () =
  {
    Protocol.default_spec with
    Protocol.topology = Protocol.Mesh { rows = 3; cols = 3 };
    seed;
    pulses;
  }

let tmp_path suffix =
  let path = Filename.temp_file "rfd-svc" suffix in
  path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let json_field body name =
  let pat = Printf.sprintf "\"%s\":\"" name in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length body then
      Alcotest.fail (Printf.sprintf "field %s not in %s" name body)
    else if String.sub body i plen = pat then i + plen
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from body start '"' in
  String.sub body start (stop - start)

(* The ground truth the daemon must reproduce byte-for-byte: a direct,
   unsupervised run of the same resolved scenario. *)
let direct_digest spec =
  match Protocol.scenario_of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok scenario ->
      Runner.result_digest (Runner.run (Sweep.materialize scenario))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_request_round_trip () =
  let specs =
    [
      Protocol.default_spec;
      small_spec ~seed:7 ~pulses:3 ();
      {
        (small_spec ()) with
        Protocol.topology = Protocol.Internet { nodes = 20; m = 2 };
        damping = Protocol.Juniper;
        mode = Rfd_bgp.Config.Rcn;
        policy = Rfd_experiment.Scenario.No_valley;
        interval = 12.5;
        mrai = 0.3;
        isp = -1;
        reuse_tick = Some 1.25;
      };
      {
        (small_spec ()) with
        Protocol.background = 250;
        flappers = 40;
        flaps = 2;
        flap_gap = 7.5;
        flap_alpha = 1.25;
        flap_seed = 9;
      };
    ]
  in
  List.iter
    (fun spec ->
      let line = Protocol.render_request (Protocol.Query spec) in
      Alcotest.(check bool) "line ends in newline" true
        (line.[String.length line - 1] = '\n');
      (match Protocol.parse_request (String.sub line 0 (String.length line - 1)) with
      | Ok (Protocol.Query spec') ->
          Alcotest.(check bool) "spec survives the wire" true (spec = spec')
      | Ok _ -> Alcotest.fail "parsed as non-query"
      | Error e -> Alcotest.fail e);
      (* field_values is what rfd-sim prints as each flag's default, so
         every value must read back through parse_field. *)
      let set spec (key, value) =
        match Protocol.parse_field key value with
        | Ok set -> set spec
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "field_values read back" true
        (List.fold_left set Protocol.default_spec (Protocol.field_values spec) = spec))
    specs;
  (match Protocol.parse_request "rfd-svc/1 query pulses=3" with
  | Ok (Protocol.Query spec) ->
      Alcotest.(check int) "missing fields default" 3 spec.Protocol.pulses;
      Alcotest.(check bool) "rest is default_spec" true
        (spec = { Protocol.default_spec with Protocol.pulses = 3 })
  | _ -> Alcotest.fail "minimal query rejected");
  (match Protocol.parse_request "rfd-svc/1 stats" with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats rejected");
  match Protocol.parse_request "rfd-svc/1 ping\r" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "CR-terminated ping rejected"

let test_request_errors () =
  let bad =
    [
      "rfd-svc/2 ping";
      "";
      "rfd-svc/1";
      "rfd-svc/1 frobnicate";
      "rfd-svc/1 query pulses=abc";
      "rfd-svc/1 query pulses=1 pulses=2";
      "rfd-svc/1 query colour=red";
      "rfd-svc/1 query topology=donut:9";
    ]
  in
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" line))
    bad

let test_response_round_trip () =
  let bodies =
    [
      Protocol.Result { cached = true; body = "{\"schema\":\"rfd-svc/1\"}" };
      Protocol.Result { cached = false; body = "{\"x\":1}" };
      Protocol.Stats "{\"hits\":3}";
      Protocol.Pong;
      Protocol.Refused
        {
          code = Protocol.Overloaded;
          body =
            Protocol.error_body ~code:Protocol.Overloaded
              ~message:"64 jobs pending (cap 64); retry with backoff" ();
        };
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.render_response r in
      match
        Protocol.parse_response (String.sub line 0 (String.length line - 1))
      with
      | Ok r' -> Alcotest.(check bool) "response survives the wire" true (r = r')
      | Error e -> Alcotest.fail e)
    bodies

let test_spec_admission () =
  let refuse spec reason =
    match Protocol.scenario_of_spec spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail reason
  in
  refuse
    { (small_spec ()) with Protocol.topology = Protocol.Mesh { rows = 1000; cols = 1000 } }
    "accepted a 1M-node mesh";
  refuse
    { (small_spec ()) with Protocol.pulses = Protocol.max_pulses + 1 }
    "accepted an over-cap pulse count";
  refuse { (small_spec ()) with Protocol.pulses = -1 } "accepted negative pulses";
  refuse
    { (small_spec ()) with Protocol.topology = Protocol.Mesh { rows = 0; cols = 5 } }
    "accepted an empty mesh";
  refuse { (small_spec ()) with Protocol.interval = 0. } "accepted a 0s interval";
  refuse { (small_spec ()) with Protocol.isp = 9 } "accepted isp outside a 3x3 mesh";
  refuse
    { (small_spec ()) with Protocol.background = Protocol.max_background + 1 }
    "accepted an over-cap background prefix count";
  refuse
    { (small_spec ()) with Protocol.flappers = Protocol.max_flappers + 1 }
    "accepted an over-cap flapper count";
  refuse
    { (small_spec ()) with Protocol.flappers = 1000; flaps = 1_000_000 }
    "accepted an over-cap workload event count";
  refuse
    { (small_spec ()) with Protocol.flappers = 1000; flaps = max_int / 2 }
    "accepted an overflowing workload event count";
  refuse
    { (small_spec ()) with Protocol.flappers = 5; flap_alpha = 0. }
    "accepted a zero Pareto alpha";
  (match
     Protocol.scenario_of_spec
       { (small_spec ()) with Protocol.background = 10; flappers = 5; flaps = 2 }
   with
  | Ok scenario ->
      Alcotest.(check bool) "workload survives elaboration" true
        (match scenario.Rfd_experiment.Scenario.workload with
        | Rfd_experiment.Scenario.Flappers { count = 5; flaps = 2; _ } -> true
        | _ -> false)
  | Error e -> Alcotest.fail e);
  (match Protocol.scenario_of_spec (small_spec ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* The elaboration alone (what rfd-sim runs local scenarios through):
     no admission cap, no graph built, and every check made against the
     topology it is given rather than the spec's own. *)
  let big =
    { (small_spec ()) with Protocol.topology = Protocol.Internet { nodes = 100_001; m = 2 } }
  in
  refuse big "accepted a topology over the node cap";
  (match Protocol.elaborate big (Protocol.scenario_topology big.Protocol.topology) with
  | Ok scenario ->
      Alcotest.(check bool) "the Internet graph is left unbuilt" true
        (match scenario.Rfd_experiment.Scenario.topology with
        | Rfd_experiment.Scenario.Internet { nodes = 100_001; m = 2 } -> true
        | _ -> false)
  | Error e -> Alcotest.fail e);
  let edges =
    String.concat "" (List.init 199 (fun i -> Printf.sprintf "%d %d\n" i (i + 1)))
  in
  let line =
    match Rfd_topology.Edge_list.parse_graph edges with
    | Ok g -> Rfd_experiment.Scenario.Custom g
    | Error e -> Alcotest.fail e
  in
  (match Protocol.elaborate { (small_spec ()) with Protocol.isp = 150 } line with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("isp 150 on the 200-node file graph: " ^ e));
  match Protocol.elaborate { (small_spec ()) with Protocol.isp = 250 } line with
  | Ok _ -> Alcotest.fail "accepted isp 250 on a 200-node graph"
  | Error _ -> ()

let test_result_body_deterministic () =
  let spec = small_spec () in
  match Protocol.scenario_of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok scenario ->
      let resolved = Sweep.materialize scenario in
      let key =
        Journal.job_key resolved ~seed:spec.Protocol.seed
          ~pulses:spec.Protocol.pulses
      in
      let b1 = Protocol.result_body ~key (Runner.run resolved) in
      let b2 = Protocol.result_body ~key (Runner.run resolved) in
      Alcotest.(check string) "two runs, one body" b1 b2;
      Alcotest.(check string) "body carries the cache key" key
        (json_field b1 "key")

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let test_store_round_trip_and_replay () =
  let path = tmp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Store.open_ path in
  Alcotest.(check int) "fresh store is empty" 0 (Store.entries s);
  Store.put s ~key:"a" (Journal.Crashed "one");
  Store.put s ~key:"b" (Journal.Timed_out { attempts = 2; deadline = 1.5 });
  (match Store.find s "a" with
  | Some (Journal.Crashed "one") -> ()
  | _ -> Alcotest.fail "a missing before restart");
  Store.close s;
  (* Reopen: the journal replay must serve the same outcomes. *)
  let s = Store.open_ path in
  Alcotest.(check int) "both entries replayed" 2 (Store.entries s);
  (match Store.find s "b" with
  | Some (Journal.Timed_out { attempts = 2; _ }) -> ()
  | _ -> Alcotest.fail "b missing after restart");
  Store.put s ~key:"c" (Journal.Crashed "three");
  Store.close s

let test_store_lru_bound () =
  let path = tmp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Store.open_ ~cache:2 path in
  Store.put s ~key:"a" (Journal.Crashed "one");
  Store.put s ~key:"b" (Journal.Crashed "two");
  Store.put s ~key:"c" (Journal.Crashed "three");
  Alcotest.(check int) "resident bounded by cache" 2 (Store.resident s);
  Alcotest.(check int) "all keys still on disk" 3 (Store.entries s);
  Alcotest.(check int) "no disk reads yet" 0 (Store.disk_reads s);
  (match Store.find s "a" with
  | Some (Journal.Crashed "one") -> ()
  | _ -> Alcotest.fail "evicted entry must be re-readable");
  Alcotest.(check int) "eviction cost one disk read" 1 (Store.disk_reads s);
  Alcotest.(check int) "still bounded after the re-read" 2 (Store.resident s);
  Store.close s

let test_store_truncates_torn_tail () =
  let path = tmp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Store.open_ path in
  Store.put s ~key:"a" (Journal.Crashed "one");
  Store.close s;
  (* kill -9 mid-append: a newline-less fragment at the end. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "bbbb 01234567 dead";
  close_out oc;
  let s = Store.open_ path in
  Alcotest.(check int) "intact entry survives" 1 (Store.entries s);
  Store.put s ~key:"b" (Journal.Crashed "two");
  Store.close s;
  (* The fragment must be gone — not glued to b's line. *)
  let loaded = Journal.load path in
  Alcotest.(check int) "journal is clean after recovery" 0 loaded.Journal.corrupt;
  Alcotest.(check int) "both entries load" 2 (Hashtbl.length loaded.Journal.entries)

let test_store_verifies_disk_reads () =
  let path = tmp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Store.open_ ~cache:0 path in
  Store.put s ~key:"a" (Journal.Crashed "one");
  (* Corrupt the payload in place while the store is open: the index
     still lists the key (so a lookup must go to disk), and the re-read
     must re-verify the digest and turn the mangled entry into a miss
     rather than serving garbage. *)
  let whole = read_file path in
  let b = Bytes.of_string whole in
  Bytes.set b (Bytes.length b - 2) 'X';
  let oc = open_out_bin path in
  output_string oc (Bytes.to_string b);
  close_out oc;
  Alcotest.(check bool) "index still lists the key" true (Store.mem s "a");
  Alcotest.(check bool) "corrupt entry served as a miss" true
    (Store.find s "a" = None);
  Store.close s;
  (* And a restart refuses it outright: the scan drops the line. *)
  let s = Store.open_ ~cache:0 path in
  Alcotest.(check bool) "restart drops the corrupt line" true
    (not (Store.mem s "a"));
  Store.close s

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)

let server_cfg ?(max_pending = 8) ?(cache = 1024) ~socket ~journal () =
  {
    (Server.default_config ~socket_path:socket ~journal_path:journal) with
    Server.jobs = Some 2;
    deadline = Some 60.;
    retries = 0;
    max_pending;
    cache;
    io_timeout = 5.;
  }

let with_server ?max_pending ?cache f =
  let socket = tmp_path ".sock" in
  let journal = tmp_path ".journal" in
  Sys.remove journal;
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ socket; journal ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let cfg = server_cfg ?max_pending ?cache ~socket ~journal () in
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.serve t) in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.request_stop t;
      Domain.join d
    end
    else Server.Drained
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop ()))
    (fun () -> f ~socket ~journal ~cfg ~stop)

let query_body ?(attempts = 1) socket spec =
  let client = Client.connect ~timeout:60. ~retry_for:5. socket in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  match Client.query ~attempts client spec with
  | Ok (Protocol.Result { cached; body }) -> (cached, body)
  | Ok (Protocol.Refused { code; body }) ->
      Alcotest.fail
        (Printf.sprintf "refused (%s): %s"
           (Protocol.error_code_to_string code)
           body)
  | Ok _ -> Alcotest.fail "unexpected response shape"
  | Error e -> Alcotest.fail e

let test_e2e_miss_hit_bit_identity () =
  with_server @@ fun ~socket ~journal:_ ~cfg:_ ~stop ->
  let spec = small_spec () in
  let cached1, body1 = query_body socket spec in
  let cached2, body2 = query_body socket spec in
  Alcotest.(check bool) "first query is a miss" false cached1;
  Alcotest.(check bool) "second query is a hit" true cached2;
  Alcotest.(check string) "hit body is byte-identical to miss body" body1 body2;
  Alcotest.(check string) "served digest matches a direct Runner run"
    (direct_digest spec)
    (json_field body1 "digest");
  Alcotest.(check bool) "drained cleanly" true (stop () = Server.Drained)

let test_e2e_concurrent_clients () =
  with_server @@ fun ~socket ~journal:_ ~cfg:_ ~stop ->
  let shared = small_spec () in
  let distinct seed = small_spec ~seed () in
  (* Four clients race on one key (exercising coalescing) while two more
     race on their own keys. *)
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> (shared, snd (query_body socket shared))))
    @ List.map
        (fun seed ->
          Domain.spawn (fun () ->
              let spec = distinct seed in
              (spec, snd (query_body socket spec))))
        [ 101; 202 ]
  in
  let results = List.map Domain.join workers in
  List.iter
    (fun (spec, body) ->
      Alcotest.(check string) "every client got the direct-run digest"
        (direct_digest spec)
        (json_field body "digest"))
    results;
  let shared_bodies =
    List.filter_map
      (fun (spec, body) -> if spec = shared then Some body else None)
      results
  in
  (match shared_bodies with
  | first :: rest ->
      List.iter
        (fun b -> Alcotest.(check string) "coalesced bodies identical" first b)
        rest
  | [] -> Alcotest.fail "no shared-key results");
  Alcotest.(check bool) "drained cleanly" true (stop () = Server.Drained)

let test_e2e_restart_replays_journal () =
  with_server @@ fun ~socket ~journal:_ ~cfg ~stop ->
  let spec = small_spec ~seed:5 () in
  let _, body1 = query_body socket spec in
  Alcotest.(check bool) "first daemon drained" true (stop () = Server.Drained);
  (* Same journal, fresh daemon: the answer must come from the replayed
     journal (a hit), byte-identical to what the first daemon served. *)
  let t2 = Server.create cfg in
  let d2 = Domain.spawn (fun () -> Server.serve t2) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t2;
      ignore (Domain.join d2))
  @@ fun () ->
  let cached, body2 = query_body socket spec in
  Alcotest.(check bool) "post-restart query is a cache hit" true cached;
  Alcotest.(check string) "post-restart body byte-identical" body1 body2

let json_contains_int body name value =
  let pat = Printf.sprintf "\"%s\":%d" name value in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length body then false
    else String.sub body i plen = pat || find (i + 1)
  in
  find 0

let test_e2e_shed_when_full () =
  with_server ~max_pending:0 @@ fun ~socket ~journal:_ ~cfg:_ ~stop ->
  let client = Client.connect ~timeout:10. ~retry_for:5. socket in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (match Client.query ~attempts:1 client (small_spec ()) with
  | Ok (Protocol.Refused { code = Protocol.Overloaded; body }) ->
      Alcotest.(check string) "shed response names the code" "overloaded"
        (json_field body "code")
  | Ok _ -> Alcotest.fail "expected an overloaded refusal"
  | Error e -> Alcotest.fail e);
  (match Client.stats client with
  | Ok stats ->
      Alcotest.(check bool) "stats count the shed" true
        (json_contains_int stats "sheds" 1)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "drained cleanly" true (stop () = Server.Drained)

let test_e2e_invalid_and_ping () =
  with_server @@ fun ~socket ~journal:_ ~cfg:_ ~stop ->
  let client = Client.connect ~timeout:10. ~retry_for:5. socket in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  Alcotest.(check bool) "ping" true (Client.ping client);
  (* An invalid query must be refused cleanly — and the connection must
     survive to serve the next request. *)
  (match
     Client.query ~attempts:1 client
       { (small_spec ()) with Protocol.pulses = -3 }
   with
  | Ok (Protocol.Refused { code = Protocol.Invalid; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected an invalid refusal"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "connection still serves after a refusal" true
    (Client.ping client);
  (* Raw garbage on the wire: refused as invalid, never a hang. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  ignore (Unix.write_substring fd "hello there\n" 0 12);
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  let line = Bytes.sub_string buf 0 n in
  Alcotest.(check bool) "garbage refused as invalid" true
    (String.length line >= 19 && String.sub line 0 19 = "rfd-svc/1 error inv");
  Unix.close fd;
  Alcotest.(check bool) "drained cleanly" true (stop () = Server.Drained)

let test_client_retries_after_shed () =
  (* A hand-rolled server that sheds twice, then serves: the client's
     deterministic backoff must carry it to the third attempt. *)
  let socket = tmp_path ".sock" in
  Sys.remove socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX socket);
  Unix.listen listen 4;
  let served =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listen in
        let buf = Bytes.create 4096 in
        let pending = ref "" in
        let rec read_line () =
          match String.index_opt !pending '\n' with
          | Some i ->
              let line = String.sub !pending 0 i in
              pending :=
                String.sub !pending (i + 1) (String.length !pending - i - 1);
              Some line
          | None -> (
              match Unix.read fd buf 0 4096 with
              | 0 -> None
              | n ->
                  pending := !pending ^ Bytes.sub_string buf 0 n;
                  read_line ())
        in
        let shed =
          Protocol.render_response
            (Protocol.Refused
               {
                 code = Protocol.Overloaded;
                 body =
                   Protocol.error_body ~code:Protocol.Overloaded
                     ~message:"busy" ();
               })
        in
        let ok =
          Protocol.render_response
            (Protocol.Result { cached = false; body = "{\"served\":true}" })
        in
        let count = ref 0 in
        let rec loop () =
          match read_line () with
          | None -> ()
          | Some _ ->
              incr count;
              let resp = if !count <= 2 then shed else ok in
              ignore (Unix.write_substring fd resp 0 (String.length resp));
              if !count < 3 then loop ()
        in
        loop ();
        Unix.close fd;
        Unix.close listen;
        !count)
  in
  let client = Client.connect ~timeout:10. socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  (match Client.query ~attempts:5 ~backoff_base:0.01 client (small_spec ()) with
  | Ok (Protocol.Result { cached = false; body }) ->
      Alcotest.(check string) "third attempt served" "{\"served\":true}" body
  | Ok _ -> Alcotest.fail "expected a served result"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "exactly two sheds before success" 3 (Domain.join served)

let test_store_concurrent_evicted_reread () =
  (* Two domains hammer an LRU-evicted key at once: every answer must
     come back, byte-identical, through the offset re-read path. *)
  let path = tmp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Store.open_ ~cache:1 path in
  Store.put s ~key:"a" (Journal.Crashed "alpha");
  Store.put s ~key:"b" (Journal.Crashed "beta");
  (* cache 1: at most one of a/b is resident, so concurrent readers
     alternating keys keep evicting each other's entry. *)
  let reader key expected =
    Domain.spawn (fun () ->
        let ok = ref true in
        for _ = 1 to 200 do
          (match Store.find s key with
          | Some (Journal.Crashed msg) -> if msg <> expected then ok := false
          | _ -> ok := false);
          Domain.cpu_relax ()
        done;
        !ok)
  in
  let r1 = reader "a" "alpha" in
  let r2 = reader "b" "beta" in
  let r3 = reader "a" "alpha" in
  Alcotest.(check bool) "reader 1 saw only correct bytes" true (Domain.join r1);
  Alcotest.(check bool) "reader 2 saw only correct bytes" true (Domain.join r2);
  Alcotest.(check bool) "reader 3 saw only correct bytes" true (Domain.join r3);
  Alcotest.(check bool) "evictions actually happened" true (Store.disk_reads s > 0);
  Alcotest.(check int) "residency still bounded" 1 (Store.resident s);
  Store.close s

let test_e2e_evicted_key_concurrent_clients () =
  (* End-to-end flavour of the same property: a daemon with a 1-entry
     resident cache, an evicted key, two clients asking for it at the
     same instant — both answers byte-identical to the original miss. *)
  with_server ~cache:1 @@ fun ~socket ~journal:_ ~cfg:_ ~stop ->
  let a = small_spec ~seed:11 () in
  let b = small_spec ~seed:22 () in
  let _, body_a = query_body socket a in
  let _, _ = query_body socket b in
  (* b's result is now resident; a's lives only in the journal. *)
  let asker = Domain.spawn (fun () -> query_body socket a) in
  let cached2, body2 = query_body socket a in
  let cached1, body1 = Domain.join asker in
  Alcotest.(check bool) "first concurrent read is a hit" true cached1;
  Alcotest.(check bool) "second concurrent read is a hit" true cached2;
  Alcotest.(check string) "client 1 got the original bytes" body_a body1;
  Alcotest.(check string) "client 2 got the original bytes" body_a body2;
  Alcotest.(check bool) "drained cleanly" true (stop () = Server.Drained)

let test_client_buffered_pipelined_lines () =
  (* A server that sends two response lines in one packet — the second
     line (200 kB, far beyond one read) must be spliced off the client's
     buffer on the next call without any fresh socket data. This is the
     regression surface of the O(n^2) read_line rewrite. *)
  let socket = tmp_path ".sock" in
  Sys.remove socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX socket);
  Unix.listen listen 1;
  let big_body = "{\"big\":\"" ^ String.make 200_000 'x' ^ "\"}" in
  let both =
    Protocol.render_response Protocol.Pong
    ^ Protocol.render_response (Protocol.Stats big_body)
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listen in
        let buf = Bytes.create 4096 in
        (* First request arrives; answer it AND pre-send the second
           response in the same write. *)
        ignore (Unix.read fd buf 0 4096);
        let pos = ref 0 in
        while !pos < String.length both do
          pos :=
            !pos + Unix.write_substring fd both !pos (String.length both - !pos)
        done;
        (* Drain the second request but send nothing for it. *)
        ignore (Unix.read fd buf 0 4096);
        (* Hold the connection open until the client is done; closing
           now could race the client's reads. *)
        ignore (Unix.read fd buf 0 4096);
        Unix.close fd;
        Unix.close listen)
  in
  let client = Client.connect ~timeout:10. socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      (try Sys.remove socket with Sys_error _ -> ());
      Domain.join server)
  @@ fun () ->
  Alcotest.(check bool) "first roundtrip is the pong" true (Client.ping client);
  match Client.stats client with
  | Ok body ->
      Alcotest.(check string) "huge buffered line returned intact" big_body body
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "protocol: request round trip" `Quick
      test_request_round_trip;
    Alcotest.test_case "protocol: request errors" `Quick test_request_errors;
    Alcotest.test_case "protocol: response round trip" `Quick
      test_response_round_trip;
    Alcotest.test_case "protocol: admission caps and validation" `Quick
      test_spec_admission;
    Alcotest.test_case "protocol: result body deterministic" `Quick
      test_result_body_deterministic;
    Alcotest.test_case "store: round trip and replay" `Quick
      test_store_round_trip_and_replay;
    Alcotest.test_case "store: LRU stays bounded" `Quick test_store_lru_bound;
    Alcotest.test_case "store: torn tail truncated" `Quick
      test_store_truncates_torn_tail;
    Alcotest.test_case "store: disk reads re-verify digests" `Quick
      test_store_verifies_disk_reads;
    Alcotest.test_case "e2e: miss/hit byte identity vs direct run" `Quick
      test_e2e_miss_hit_bit_identity;
    Alcotest.test_case "e2e: concurrent clients, shared and distinct keys"
      `Quick test_e2e_concurrent_clients;
    Alcotest.test_case "e2e: restart replays the journal" `Quick
      test_e2e_restart_replays_journal;
    Alcotest.test_case "e2e: sheds when the queue is full" `Quick
      test_e2e_shed_when_full;
    Alcotest.test_case "e2e: invalid queries and raw garbage" `Quick
      test_e2e_invalid_and_ping;
    Alcotest.test_case "client: retries after shed with backoff" `Quick
      test_client_retries_after_shed;
    Alcotest.test_case "store: concurrent readers of an evicted key" `Quick
      test_store_concurrent_evicted_reread;
    Alcotest.test_case "e2e: evicted key, two clients, identical bytes" `Quick
      test_e2e_evicted_key_concurrent_clients;
    Alcotest.test_case "client: pipelined and oversized buffered lines" `Quick
      test_client_buffered_pipelined_lines;
  ]
