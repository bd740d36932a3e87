(* serve_mix: two rfd-simd shards (--jobs 1, shard admission on) driven
   by one closed-loop blocking caller through Svc_fleet over two
   connections -- the shape of `rfd-sim query --fleet` callers, which wait
   for each reply.

   The query mix is the mixed point of the repository's serving benchmark
   (bench/serving.ml, BENCH_serving.json): half hits, half misses, every
   spec a single-pulse mesh:3x3 scenario with a seed of its own. Set-up
   primes [hits_per_pass] keys; a pass asks each of them once and as many
   fresh keys, in seeded order. Hits exercise framing, keying and
   result_body; misses add supervisor dispatch, simulation and the
   fsync'd journal append. *)

open Workload
module P = Rfd.Svc_protocol
module Fleet = Rfd.Svc_fleet
module Client = Rfd.Svc_client
module Store = Rfd.Svc_store
module Runner = Rfd.Runner
module Sweep = Rfd.Sweep
module Rng = Rfd.Rng

let shards = 2
let hits_per_pass = 40
let misses_per_pass = 40

(* ---- inputs --------------------------------------------------------- *)

let mesh_spec seed = { P.default_spec with P.topology = P.Mesh { rows = 3; cols = 3 }; pulses = 1; seed }

(* Hit keys and each pass's miss keys get disjoint protocol seeds. *)
let hit_spec seed i = mesh_spec ((seed * 1_000_000) + i)
let miss_spec seed pass j = mesh_spec ((seed * 1_000_000) + ((pass + 1) * 1000) + j)

(* A larger spec for the traced run's keying and result_body probes only;
   no pass asks for it. *)
let large_spec seed =
  {
    P.default_spec with
    P.topology = P.Internet { nodes = 2000; m = 2 };
    damping = P.No_damping;
    pulses = 1;
    seed;
  }

type query = Hit of int | Miss of P.spec

(* Pass [pass] of the workload at [seed]: the same inputs every time it is
   generated, fresh miss keys for every pass. *)
let pass_queries seed pass =
  let rng = Rng.create ((seed * 7919) + pass) in
  let qs =
    Array.append
      (Array.init misses_per_pass (fun j -> Miss (miss_spec seed pass j)))
      (Array.init hits_per_pass (fun i -> Hit i))
  in
  Rng.shuffle rng qs;
  qs

let spec_of seed = function Hit i -> hit_spec seed i | Miss s -> s

(* ---- daemons -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let live = ref []

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Layer.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Layer.now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter stop_daemon !live)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o700)

(* Runtime events go to the daemons only: OCAML_RUNTIME_EVENTS_START is
   set in their environment, never in this process's. *)
let spawn ~simd ~dir ~events =
  mkdir_p dir;
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS" kv))
  in
  let env =
    if events then
      "OCAML_RUNTIME_EVENTS_START=1" :: ("OCAML_RUNTIME_EVENTS_DIR=" ^ dir) :: env
    else env
  in
  let daemons =
    List.init shards (fun i ->
        let socket = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
        let journal = Filename.concat dir (Printf.sprintf "s%d.journal" i) in
        let log =
          Unix.openfile (Filename.concat dir (Printf.sprintf "s%d.log" i))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
        in
        let argv =
          [| simd; "--socket"; socket; "--journal"; journal; "--jobs"; "1";
             "--shard-id"; string_of_int i; "--shard-count"; string_of_int shards |]
        in
        let pid = Unix.create_process_env simd argv (Array.of_list env) Unix.stdin log log in
        Unix.close log;
        let d = { pid; socket } in
        live := d :: !live;
        d)
  in
  List.iter
    (fun d ->
      let c = Client.connect ~retry_for:30. d.socket in
      let ok = Client.ping c in
      Client.close c;
      if not ok then failwith ("daemon did not answer ping on " ^ d.socket))
    daemons;
  daemons

(* ---- one fleet: setup, passes, checks --------------------------------- *)

type fleet = {
  daemons : daemon list;
  client : Fleet.t;
  primed : string array;  (* hit key -> the body its priming miss got *)
}

type pass = {
  wall : float;
  net : float;  (* wall less steal (Layer.steal_s) *)
  cpu : float;
  hit_ms : float list;
  miss_ms : float list;
  miss_bodies : (P.spec * string) list;  (* in query order *)
  failures : string list;
}

let body_of = function
  | Ok (P.Result { cached; body }) -> Ok (cached, body)
  | Ok (P.Refused { code; body }) -> Error (P.error_code_to_string code ^ " " ^ body)
  | Ok _ -> Error "unexpected response kind"
  | Error e -> Error e

let setup ~simd ~dir ~events ~seed =
  let daemons = spawn ~simd ~dir ~events in
  let client = Fleet.create (List.map (fun d -> d.socket) daemons) in
  let primed =
    Array.init hits_per_pass (fun i ->
        match body_of (Fleet.query client (hit_spec seed i)) with
        | Ok (false, body) -> body
        | Ok (true, _) -> failwith "priming query was answered as a hit"
        | Error e -> failwith ("priming query failed: " ^ e))
  in
  { daemons; client; primed }

let teardown f =
  Fleet.close f.client;
  List.iter stop_daemon f.daemons

let fleet_cpu f = Layer.sum (List.map (fun d -> Layer.proc_cpu_s d.pid) f.daemons)

let run_pass ?(between = fun () -> ()) f ~seed queries =
  let hit = ref [] and miss = ref [] in
  let bodies = ref [] and failures = ref [] in
  let c0 = Layer.cpu () +. fleet_cpu f in
  let s0 = Layer.steal_s () in
  let t0 = Layer.now () in
  Array.iteri
    (fun i q ->
      between ();
      let spec = spec_of seed q in
      let r, dt = Layer.timed (fun () -> Fleet.query f.client spec) in
      let ms = dt *. 1000. in
      match (q, body_of r) with
      | Miss s, Ok (false, body) ->
          miss := ms :: !miss;
          bodies := (s, body) :: !bodies
      | Hit k, Ok (true, body) when f.primed.(k) = body -> hit := ms :: !hit
      | _, Ok (cached, _) ->
          failures :=
            Printf.sprintf "query %d: %s answer differs from the expected %s" i
              (if cached then "hit" else "miss")
              (match q with Miss _ -> "miss" | _ -> "hit body")
            :: !failures
      | _, Error e -> failures := Printf.sprintf "query %d refused: %s" i e :: !failures)
    queries;
  let wall = Layer.now () -. t0 in
  {
    wall;
    net = wall -. (Layer.steal_s () -. s0);
    cpu = Layer.cpu () +. fleet_cpu f -. c0;
    hit_ms = !hit;
    miss_ms = !miss;
    miss_bodies = List.rev !bodies;
    failures = List.rev !failures;
  }

(* Raw value of [field] in a flat, minified JSON object: "hits":12 gives
   "12", "digest":"ab" gives "\"ab\"". *)
let json_field body field =
  let pat = Printf.sprintf "\"%s\":" field in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length body then None
    else if String.sub body i n = pat then (
      let j = ref (i + n) in
      while !j < String.length body && body.[!j] <> ',' && body.[!j] <> '}' do incr j done;
      Some (String.sub body (i + n) (!j - i - n)))
    else find (i + 1)
  in
  find 0

(* Summed daemon counters; every shard must report zero sheds, zero
   wrong-shard refusals and zero coalesced requests, and the hit and miss
   totals must equal what this client sent. *)
let check_stats f ~hits ~misses =
  let stats = Fleet.stats f.client in
  let get field =
    List.fold_left
      (fun acc (_, s) ->
        match s with
        | Ok body -> (
            match Option.bind (json_field body field) int_of_string_opt with
            | Some v -> acc + v
            | None -> acc - 1_000_000)
        | Error _ -> acc - 1_000_000)
      0 stats
  in
  let counts = List.map (fun k -> (k, get k)) [ "hits"; "misses"; "coalesced"; "sheds"; "wrong_shard" ] in
  let problems =
    List.filter_map
      (fun (k, expected) ->
        let v = List.assoc k counts in
        if v <> expected then Some (Printf.sprintf "daemon stats: %s=%d, expected %d" k v expected)
        else None)
      [ ("hits", hits); ("misses", misses); ("coalesced", 0); ("sheds", 0); ("wrong_shard", 0) ]
  in
  (counts, problems)

let materialize spec =
  match P.scenario_of_spec spec with
  | Ok s -> Sweep.materialize s
  | Error e -> failwith ("invalid spec: " ^ e)

(* The served digest must equal an in-process Runner.run of the same spec. *)
let check_digest (spec, body) result =
  match json_field body "digest" with
  | Some d when d = Printf.sprintf "%S" (Runner.result_digest result) -> None
  | Some d ->
      Some (Printf.sprintf "%s seed=%d: served digest %s, in-process %s"
              (P.topo_to_string spec.P.topology) spec.P.seed d (Runner.result_digest result))
  | None -> Some "served body has no digest"

let pinned_digest = "7c73d79a80f73e8011ba5f30b452a25d"

let pin_problem ~seed ~expect_digest f pass0 =
  let digest =
    md5_hex
      (String.concat "" (Array.to_list f.primed @ List.map snd pass0.miss_bodies))
  in
  let expected =
    match expect_digest with Some d -> Some d | None -> if seed = 42 then Some pinned_digest else None
  in
  ( digest,
    match expected with
    | Some d when d <> digest -> [ Printf.sprintf "body digest %s, pinned %s" digest d ]
    | _ -> [] )

let latency_notes passes =
  let cat f = List.concat_map f passes in
  let hits = cat (fun p -> p.hit_ms) and misses = cat (fun p -> p.miss_ms) in
  let wall = Layer.sum (List.map (fun p -> p.wall) passes) in
  let n = List.length hits + List.length misses in
  ( Layer.median misses,
    [
      Printf.sprintf "queries_per_s %.3f 1/s (%d queries in %.3f s)" (float_of_int n /. wall) n wall;
      Printf.sprintf "hit_p50_ms %.4f ms  hit_p99_ms %.4f ms  (%d hits)" (Layer.median hits)
        (Layer.quantile hits 0.99) (List.length hits);
      Printf.sprintf "miss_p50_ms %.4f ms  miss_p90_ms %.4f ms  (%d misses)" (Layer.median misses)
        (Layer.quantile misses 0.9) (List.length misses);
    ] )

let queries_in p =
  List.length p.hit_ms + List.length p.miss_ms + List.length p.failures

(* ---- end-to-end run ---------------------------------------------------- *)

let setup_reps = 5

let measure ~seed ~seconds ~simd ~scratch ~expect_digest =
  let setups =
    List.init setup_reps (fun i ->
        let f, s =
          Layer.timed_net (fun () ->
              setup ~simd ~dir:(Filename.concat scratch (Printf.sprintf "f%d" i)) ~events:false ~seed)
        in
        if i < setup_reps - 1 then (teardown f; (None, s)) else (Some f, s))
  in
  let f = Option.get (fst (List.nth setups (setup_reps - 1))) in
  (* Daemon peak RSS is read after the first pass, before later passes'
     fresh misses grow the stores. *)
  let daemons_hwm_mb () =
    Layer.sum
      (List.map (fun d -> float_of_int (Layer.status_kb ~pid:(string_of_int d.pid) "VmHWM")) f.daemons)
    /. 1024.
  in
  let pass_no = ref 0 and rss_mb = ref 0. in
  let scaled_passes =
    repeat ~domains:1 ~seconds (fun () ->
        let p = run_pass f ~seed (pass_queries seed !pass_no) in
        if !pass_no = 0 then rss_mb := daemons_hwm_mb ();
        incr pass_no;
        p)
  in
  let passes = List.map fst scaled_passes in
  let pass0 = List.hd passes in
  let sent_hits = List.length passes * hits_per_pass in
  let sent_misses = hits_per_pass + (List.length passes * misses_per_pass) in
  let _, stat_problems = check_stats f ~hits:sent_hits ~misses:sent_misses in
  let digest, pin = pin_problem ~seed ~expect_digest f pass0 in
  teardown f;
  (* Outside the timed window: a fixed sample of served digests against
     in-process runs -- three hit keys and five of pass 0's misses. *)
  let sample =
    List.map (fun i -> (hit_spec seed i, f.primed.(i))) [ 0; 1; hits_per_pass - 1 ]
    @ List.filteri (fun i _ -> i < 5) pass0.miss_bodies
  in
  let digest_problems =
    List.filter_map (fun ((spec, _) as sb) -> check_digest sb (Runner.run (materialize spec))) sample
  in
  let failures = List.concat_map (fun p -> p.failures) passes in
  let problems = failures @ stat_problems @ pin @ digest_problems in
  let _, notes = latency_notes passes in
  let attempted = List.fold_left (fun a p -> a + queries_in p) 0 passes in
  {
    attempted;
    failed = List.length failures;
    problems;
    metrics =
      [
        (* Set-up and a pass mostly wait on fsync'd journal appends and
           socket round trips: net of steal, they held within 5% from a
           quiet host to a busy one, and the host-speed scale only added
           spread to them. CPU time is scaled like the sims'. *)
        m "setup_s" (Layer.median (List.map snd setups)) "s";
        m "wall_s" (Layer.median (List.map (fun p -> p.net) passes)) "s";
        (* Daemon CPU is read in 10 ms ticks: a mean over every pass
           keeps that rounding out of the figure. *)
        m "cpu_s"
          (Layer.sum (List.map (fun (p, scale) -> p.cpu *. scale) scaled_passes)
          /. float_of_int (List.length passes))
          "s";
        m "peak_rss_mb" !rss_mb "MB";
      ];
    notes =
      Printf.sprintf "passes=%d body digest=%s" (List.length passes) digest
      :: Printf.sprintf "as measured: wall %.4f s (net of steal above); cpu %.4f s (mean), scale median %.3f"
           (Layer.median (List.map (fun p -> p.wall) passes))
           (Layer.sum (List.map (fun p -> p.cpu) passes) /. float_of_int (List.length passes))
           (Layer.median (List.map snd scaled_passes))
      :: notes;
  }

(* ---- traced run -------------------------------------------------------- *)

let traced ~seed ~simd ~scratch ~expect_digest =
  let queries = pass_queries seed 0 in
  (* Pass 0 on fresh fleets: untraced, traced, untraced again. Averaging
     the two untraced passes keeps a drift in host speed out of the
     tracing overhead. *)
  let untraced name =
    let f = setup ~simd ~dir:(Filename.concat scratch name) ~events:false ~seed in
    let p = Layer.gc_delta (fun () -> run_pass f ~seed queries) in
    teardown f;
    p
  in
  let plain, gc = untraced "plain" in
  (* The same pass on a fresh fleet whose daemons write runtime events. *)
  let dir = Filename.concat scratch "traced" in
  let fb = setup ~simd ~dir ~events:true ~seed in
  let rings = List.map (fun d -> Layer.Pauses.attach (Some (dir, d.pid))) fb.daemons in
  List.iter Layer.Pauses.reset rings;
  let poll () = List.iter Layer.Pauses.poll rings in
  let traced_pass = run_pass ~between:poll fb ~seed queries in
  poll ();
  let counts, stat_problems =
    check_stats fb ~hits:hits_per_pass ~misses:(hits_per_pass + misses_per_pass)
  in
  let ping_us =
    let c = Client.connect (List.hd fb.daemons).socket in
    let xs = List.init 200 (fun _ -> 1e6 *. snd (Layer.timed (fun () -> assert (Client.ping c)))) in
    Client.close c;
    Layer.median xs
  in
  let _, pin = pin_problem ~seed ~expect_digest fb traced_pass in
  List.iter Layer.Pauses.close rings;
  teardown fb;
  let plain2, _ = untraced "plain2" in
  let untraced_wall = (plain.wall +. plain2.wall) /. 2. in
  let same_bodies =
    List.for_all
      (fun p -> List.map snd p.miss_bodies = List.map snd plain.miss_bodies)
      [ traced_pass; plain2 ]
  in
  (* Stage split, in process, on this pass's own lines, specs and results. *)
  let lines =
    Array.to_list (Array.map (fun q -> String.trim (P.render_request (P.Query (spec_of seed q)))) queries)
  in
  let parse_us =
    1e6
    *. Layer.median_time ~reps:5 (fun () ->
           List.iter (fun l -> assert (Result.is_ok (P.parse_request l))) lines)
    /. float_of_int (List.length lines)
  in
  (* The fleet client's own keying (scenario_of_spec, memoized
     Sweep.materialize, Journal.job_key), as client and daemon both pay
     it; keying never opens a connection. *)
  let keyer = Fleet.create [ Filename.concat scratch "keying.sock" ] in
  let derive spec =
    match Fleet.key_of_spec keyer spec with Ok k -> k | Error e -> failwith e
  in
  let warm_derive_ms spec =
    ignore (derive spec);
    1000. *. Layer.median_time ~reps:5 (fun () -> ignore (derive spec))
  in
  let key_small = Layer.median (List.init hits_per_pass (fun i -> warm_derive_ms (hit_spec seed i))) in
  let key_large = warm_derive_ms (large_spec seed) in
  let miss_specs = List.map fst traced_pass.miss_bodies in
  (* Each miss key derived once, as client and daemon each derive it (the
     mesh:3x3 topology is already in the memo, as in the daemon). *)
  let miss_keys = List.map (fun s -> Layer.timed (fun () -> derive s)) miss_specs in
  let miss_key_ms = 1000. *. Layer.median (List.map snd miss_keys) in
  let direct = List.map (fun s -> Layer.run_traced (materialize s)) miss_specs in
  let digest_problems =
    List.filter_map (fun (sb, t) -> check_digest sb t.Layer.result)
      (List.combine traced_pass.miss_bodies direct)
  in
  let miss_run_ms = 1000. *. Layer.median (List.map (fun t -> t.Layer.settle_s +. t.Layer.flap_s) direct) in
  let body_ms key r = 1000. *. Layer.median_time ~reps:5 (fun () -> ignore (P.result_body ~key r)) in
  let body_small =
    Layer.median (List.map2 (fun (k, _) t -> body_ms k t.Layer.result) miss_keys direct)
  in
  let large = Layer.run_traced ~keep_net:true (materialize (large_spec seed)) in
  let body_large = body_ms (derive (large_spec seed)) large.Layer.result in
  let decide = Layer.decide_probe (Option.get large.Layer.net) Runner.origin_prefix in
  let store = Store.open_ (Filename.concat scratch "stage.journal") in
  let put_ms =
    Layer.median
      (List.map2
         (fun (k, _) t ->
           let outcome = Rfd.Journal.Result t.Layer.result in
           1000. *. snd (Layer.timed (fun () -> Store.put store ~key:k outcome)))
         miss_keys direct)
  in
  let find_us =
    Layer.median
      (List.map
         (fun (k, _) -> 1e6 *. snd (Layer.timed (fun () -> assert (Store.find store k <> None))))
         miss_keys)
  in
  Store.close store;
  let miss_p50, notes = latency_notes [ plain ] in
  let c = Layer.counters () in
  List.iter (fun t -> Layer.add_counters c t.Layer.counts) direct;
  let results = List.map (fun t -> t.Layer.result) direct in
  let events = List.fold_left (fun a r -> a + r.Runner.sim_events) 0 results in
  let run_wall = Layer.sum (List.map (fun t -> t.Layer.settle_s +. t.Layer.flap_s) direct) in
  let problems =
    plain.failures @ traced_pass.failures @ plain2.failures @ stat_problems @ pin @ digest_problems
    @ if same_bodies then [] else [ "traced pass bodies differ from the untraced pass" ]
  in
  let pauses_total = Layer.sum (List.map Layer.Pauses.total_ms rings) in
  let pauses_max = List.fold_left (fun a r -> Float.max a (Layer.Pauses.max_ms r)) 0. rings in
  {
    attempted = queries_in plain + queries_in traced_pass + queries_in plain2;
    failed = List.length (plain.failures @ traced_pass.failures @ plain2.failures);
    problems;
    metrics =
      [
        count "sim.events" events;
        m "sim.events_per_s" (float_of_int events /. run_wall) "1/s";
        count "sim.peak_heap" (List.fold_left (fun a r -> max a r.Runner.peak_heap) 0 results);
        count "sim.compactions" (List.fold_left (fun a t -> a + t.Layer.compactions) 0 direct);
        m "runner.settle_ms" (1000. *. Layer.sum (List.map (fun t -> t.Layer.settle_s) direct)) "ms";
        m "runner.flap_ms" (1000. *. Layer.sum (List.map (fun t -> t.Layer.flap_s) direct)) "ms";
        count "router.updates_delivered" c.delivered;
        count "router.best_changes" c.best_changes;
        count "mrai.queued" c.mrai_queued;
        count "mrai.flushes" c.mrai_flushes;
        m "router.decide_us_hub" decide.hub_us "us";
        m "router.decide_us_median" decide.median_us "us";
        count "router.max_degree" decide.max_degree;
        count "damping.penalties" c.penalties;
        count "damping.suppressions" c.suppressions;
        count "damping.reuse_noisy" c.reuse_noisy;
        count "damping.reuse_silent" c.reuse_silent;
        count "damping.reuse_timer_events"
          (List.fold_left (fun a r -> a + r.Runner.reuse_timer_events) 0 results);
        m "gc.minor_words" gc.Layer.minor_words "words";
        count "gc.major_collections" gc.major_collections;
        m "gc.pause_ms" pauses_total "ms";
        m "gc.pause_max_ms" pauses_max "ms";
        m "protocol.parse_us" parse_us "us";
        m "protocol.result_body_ms_small" body_small "ms";
        m "protocol.result_body_ms_large" body_large "ms";
        m "key.derive_ms_small" key_small "ms";
        m "key.derive_ms_large" key_large "ms";
        m "store.find_us" find_us "us";
        m "store.put_ms" put_ms "ms";
        count "server.hits" (List.assoc "hits" counts);
        count "server.misses" (List.assoc "misses" counts);
        count "server.coalesced" (List.assoc "coalesced" counts);
        count "server.sheds" (List.assoc "sheds" counts);
        m "server.miss_overhead_ms" (miss_p50 -. miss_run_ms -. (2. *. miss_key_ms) -. put_ms) "ms";
        m "client.ping_us" ping_us "us";
        m "runner.miss_run_ms" miss_run_ms "ms";
        m "trace.overhead_pct" (100. *. ((traced_pass.wall /. untraced_wall) -. 1.)) "%";
      ];
    notes =
      Printf.sprintf
        "untraced pass wall=%.3fs (mean of 2) traced pass wall=%.3fs miss key %.3f ms; \
         gc spans=%d lost=%d"
        untraced_wall traced_pass.wall miss_key_ms
        (List.fold_left (fun a r -> a + r.Layer.Pauses.spans) 0 rings)
        (List.fold_left (fun a r -> a + r.Layer.Pauses.lost) 0 rings)
      :: notes;
  }

let run ~seed ~seconds ~traced:t ~simd ~scratch ~expect_digest =
  if simd = "" || scratch = "" then (
    prerr_endline "serve_mix needs --simd and --scratch";
    exit 2);
  if t then traced ~seed ~simd ~scratch ~expect_digest
  else measure ~seed ~seconds ~simd ~scratch ~expect_digest
