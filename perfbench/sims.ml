(* The three simulation workloads. Each is a fixed batch of scenarios
   derived from the workload seed; one "unit" runs the whole batch and is
   repeated for the measurement window. Each unit is sized to take one to
   three seconds on a 2-core host, so a 20 s window holds enough units
   for a steady median.

   - paper_sweep: the paper's own experiment, damping- and MRAI-bound at
     degree 4 with one prefix; the only workload using engine.pool in
     parallel.
   - internet_5k: one run on a 5,000-node Barabasi-Albert graph, bound
     by O(degree) decision and export work at hubs.
   - prefix_heavy: a 3x3 mesh carrying 5,000 background prefixes and 50
     Pareto flappers, bound by per-prefix tables and damper state. *)

open Workload
module Runner = Rfd.Runner
module Sweep = Rfd.Sweep
module Scenario = Rfd.Scenario
module Config = Rfd.Config

let jobs = 2 (* paper_sweep worker domains: the 2-core reference host *)

type batch = Plan of Sweep.job list | Single of Scenario.t

let paper_seeds seed = List.init 3 (fun i -> (seed * 10) + i)

let prepare name seed =
  match name with
  | "paper_sweep" ->
      let bases =
        [
          ("none", Config.default);
          ("cisco", Rfd.cisco_damping_config);
          ("rcn", Rfd.rcn_damping_config);
        ]
      in
      Plan
        (List.concat_map
           (fun (label, config) ->
             Sweep.plan
               ~pulses:(List.init 10 (fun i -> i + 1))
               ~seeds:(paper_seeds seed)
               (Scenario.make ~name:("paper_sweep-" ^ label) ~config Scenario.paper_mesh))
           bases)
  | "internet_5k" ->
      (* One fixed graph (the seed-42 graph); the workload seed drives every
         protocol RNG stream. A different BA graph per seed would move the
         hub degrees, and with them the run's cost, by more than the bounds
         allow. *)
      let config = { Rfd.cisco_damping_config with Config.seed = 42; prefix_table_hint = 2 } in
      let s =
        Sweep.materialize
          (Scenario.make ~name:"internet_5k" ~config ~pulses:1
             (Scenario.Internet { nodes = 5_000; m = 2 }))
      in
      Single { s with Scenario.config = { config with Config.seed } }
  | "prefix_heavy" ->
      (* Background placement and the protocol RNG streams stay those of
         seed 42; the workload seed draws the flapper schedule. Placing the
         background prefixes anew per seed moves the run's event count by
         10%. *)
      let config = { Rfd.cisco_damping_config with Config.seed = 42; prefix_table_hint = 5_051 } in
      Single
        (Sweep.materialize
           (Scenario.make ~name:"prefix_heavy" ~config ~pulses:3
              ~background_prefixes:5_000
              ~workload:
                (Scenario.Flappers
                   { count = 50; flaps = 3; mean_gap = 60.; alpha = 1.5; seed })
              (Scenario.Mesh { rows = 3; cols = 3 })))
  | _ -> invalid_arg name

let runs = function Plan p -> List.length p | Single _ -> 1

(* Pinned at seed 42: digest over every run's Runner.result_digest in batch
   order, summed sim events, summed flap-phase messages. [--expect-digest]
   replaces the digest pin, at any seed, and drops the two counts. *)
let pins =
  [
    ("paper_sweep", ("5c81ecf54bed7a29181e7a804000f0c5", 963_026, 583_023));
    ("internet_5k", ("ed0866896fc484940a68c0ef3700e29e", 235_415, 129_384));
    ("prefix_heavy", ("cf1bb4bfbaa9a57dd0ca0e44377baa0c", 233_141, 11_888));
  ]

let pin_seed = 42

(* [net] is [wall] less steal (Layer.steal_s). *)
type unit_result = { results : Runner.result list; wall : float; net : float; cpu : float }

let batch_digest results = md5_hex (String.concat "" (List.map Runner.result_digest results))
let total f results = List.fold_left (fun a r -> a + f r) 0 results

let run_untraced batch =
  let c0 = Layer.cpu () and s0 = Layer.steal_s () in
  let results, wall =
    Layer.timed (fun () ->
        match batch with
        | Plan p -> Sweep.execute ~jobs p
        | Single s -> [ Runner.run s ])
  in
  { results; wall; net = wall -. (Layer.steal_s () -. s0); cpu = Layer.cpu () -. c0 }

(* Check every run of a unit; returns (failed runs, problem lines). *)
let check ~name ~seed ~expect_digest ~reference results =
  let n = List.length results in
  let not_quiet =
    List.length
      (List.filter
         (fun r -> r.Runner.final_status <> Runner.Finished Rfd.Oracle.Quiet)
         results)
  in
  let digest = batch_digest results in
  let problems = ref [] and failed = ref not_quiet in
  let fail msg =
    problems := msg :: !problems;
    failed := n
  in
  if not_quiet > 0 then
    problems := Printf.sprintf "%d of %d runs did not end Finished Quiet" not_quiet n :: !problems;
  (match reference with
  | Some d when d <> digest -> fail (Printf.sprintf "digest %s differs from the first unit's %s" digest d)
  | _ -> ());
  let pinned_digest, pinned_counts =
    match expect_digest with
    | Some d -> (Some d, None)
    | None when seed = pin_seed ->
        let d, events, messages = List.assoc name pins in
        (Some d, Some (events, messages))
    | None -> (None, None)
  in
  (match pinned_digest with
  | Some d when d <> digest -> fail (Printf.sprintf "digest %s, pinned %s" digest d)
  | _ -> ());
  (match pinned_counts with
  | Some (events, messages) ->
      let ev = total (fun r -> r.Runner.sim_events) results in
      let msgs = total (fun r -> r.Runner.message_count) results in
      if ev <> events then fail (Printf.sprintf "%d events, pinned %d" ev events);
      if msgs <> messages then fail (Printf.sprintf "%d messages, pinned %d" msgs messages)
  | None -> ());
  (!failed, List.rev !problems, digest)

(* Set-up takes microseconds to tens of milliseconds here, too short to
   time one at a time. A sample times a batch of back-to-back set-ups,
   sized once so that a batch takes at least 50 ms, and divides by its
   size; each batch starts after a full major collection. Set-up is
   single-domain computation, so it is timed in CPU time, which steal
   does not inflate. One sample is taken right before every unit, so it
   shares the unit's host-speed scale. Returns the sampler: the batch and
   its CPU seconds per set-up. *)
let setup_sampler name seed =
  let batch k =
    let c0 = Layer.cpu () in
    for _ = 2 to k do
      ignore (Sys.opaque_identity (prepare name seed))
    done;
    let b = prepare name seed in
    (b, Layer.cpu () -. c0)
  in
  let rec size k = if snd (batch k) >= 0.05 then k else size (2 * k) in
  let k = size 1 in
  fun () ->
    Gc.full_major ();
    let b, t = batch k in
    (b, t /. float_of_int k)

type sample = { setup : float; u : unit_result }

let measure ~name ~seed ~seconds ~expect_digest =
  let domains = match name with "paper_sweep" -> jobs | _ -> 1 in
  let sample_setup = setup_sampler name seed in
  (* Each unit sets up its batch, runs it, is checked as it ends and has
     its results dropped; each run starts after a full major collection,
     so every unit finds the heap alike. Peak RSS is read after the first
     unit: later units reuse a fragmented heap, so the process high-water
     mark would grow with the number of units that fit the window. *)
  let reference = ref None and failed = ref 0 and problems = ref [] and peak_kb = ref 0 in
  let sizes = ref (0, 0) and runs_per_unit = ref 0 in
  let one_unit () =
    let batch, setup = sample_setup () in
    Gc.compact ();
    let u = run_untraced batch in
    let f, p, d = check ~name ~seed ~expect_digest ~reference:!reference u.results in
    if !reference = None then (
      reference := Some d;
      runs_per_unit := runs batch;
      sizes :=
        (total (fun r -> r.Runner.sim_events) u.results, total (fun r -> r.Runner.message_count) u.results));
    failed := !failed + f;
    problems := !problems @ p;
    if !peak_kb = 0 then peak_kb := Layer.status_kb "VmHWM";
    { setup; u = { u with results = [] } }
  in
  (* A first, unmeasured unit grows the heap to its working size (its
     page faults are set-up, not steady-state cost); it is checked like
     the others and peak RSS is read after it. *)
  ignore (one_unit ());
  let units = repeat ~domains ~seconds one_unit in
  let raw f = Layer.median (List.map (fun (x, _) -> f x) units) in
  let walls = String.concat " " (List.map (fun (x, _) -> Printf.sprintf "%.3f" x.u.wall) units) in
  {
    attempted = (1 + List.length units) * !runs_per_unit;
    failed = !failed;
    problems = !problems;
    metrics =
      [
        m "setup_s" (scaled_median (fun x -> x.setup) units) "s";
        m "wall_s" (scaled_median (fun x -> x.u.net) units) "s";
        m "cpu_s" (scaled_median (fun x -> x.u.cpu) units) "s";
        m "peak_rss_mb" (float_of_int !peak_kb /. 1024.) "MB";
      ];
    notes =
      [
        Printf.sprintf "units=%d runs/unit=%d events/unit=%d messages/unit=%d digest=%s unit walls: %s"
          (List.length units) !runs_per_unit (fst !sizes) (snd !sizes)
          (Option.value !reference ~default:"-") walls;
        Printf.sprintf
          "as measured, before host-speed scaling: setup %.4g s, wall %.4f s (%.4f s net of steal), cpu %.4f s; scale median %.3f"
          (raw (fun x -> x.setup)) (raw (fun x -> x.u.wall)) (raw (fun x -> x.u.net)) (raw (fun x -> x.u.cpu))
          (Layer.median (List.map snd units));
      ];
  }

(* The traced run: a warm-up unit, then untraced, traced and untraced
   units from the same heap state; the traced one wraps the hooks and
   reads runtime-events pauses. Averaging the two untraced units keeps a
   drift in host speed out of the tracing overhead. Each unit's results
   are reduced to numbers before the next unit starts, so no unit runs
   beside another's live results. *)
let traced ~name ~seed ~expect_digest =
  let batch, setup_wall = Layer.timed (fun () -> prepare name seed) in
  let reference = batch_digest (run_untraced batch).results in
  let mismatches = ref [] in
  let agree what results =
    if batch_digest results <> reference then
      mismatches := (what ^ " digest differs from the warm-up unit's") :: !mismatches
  in
  (* Per-run walls and the unit's wall of one untraced unit. *)
  let untraced () =
    Gc.compact ();
    let u = run_untraced batch in
    agree "untraced" u.results;
    (List.map (fun r -> r.Runner.wall_seconds) u.results, u.wall)
  in
  (* GC counts come from an untraced unit: the traced one also counts
     what the runtime-events poller allocates, which varies with timing. *)
  let (run_walls, plain_wall), gc = Layer.gc_delta untraced in
  (* The decision probe's run: the Cisco base's first seed at 10 pulses. *)
  let probe_index =
    match batch with
    | Plan p ->
        List.find_index
          (fun j -> j.Sweep.job_pulses = 10 && j.job_scenario.Scenario.name = "paper_sweep-cisco")
          p
        |> Option.get
    | Single _ -> 0
  in
  let traced_unit () =
    let scenarios =
      match batch with
      | Plan p -> List.map (fun j -> j.Sweep.job_scenario) p
      | Single s -> [ s ]
    in
    let run (i, s) = Layer.run_traced ~keep_net:(i = probe_index) s in
    let indexed = List.mapi (fun i s -> (i, s)) scenarios in
    match batch with
    | Plan _ -> Rfd.Pool.run ~jobs run indexed
    | Single _ -> List.map run indexed
  in
  let layer_metrics () =
    Gc.compact ();
    let (traced, traced_wall), pauses = Layer.Pauses.around_self (fun () -> Layer.timed traced_unit) in
    Runtime_events.pause ();
    let results = List.map (fun t -> t.Layer.result) traced in
    let failed, problems, digest = check ~name ~seed ~expect_digest ~reference:(Some reference) results in
    let net = List.find_map (fun t -> t.Layer.net) traced |> Option.get in
    let decide = Layer.decide_probe net Runner.origin_prefix in
    let prefixes_per_router, _ = Layer.rib_prefixes net in
    let c = Layer.counters () in
    List.iter (fun t -> Layer.add_counters c t.Layer.counts) traced;
    let sumf f = Layer.sum (List.map f traced) in
    let events = total (fun r -> r.Runner.sim_events) results in
    ( traced_wall,
      failed,
      problems,
      Printf.sprintf "traced digest=%s gc spans=%d lost=%d" digest pauses.spans pauses.lost,
      [
        count "sim.events" events;
        m "sim.events_per_s" (float_of_int events /. plain_wall) "1/s";
        count "sim.peak_heap" (List.fold_left (fun a r -> max a r.Runner.peak_heap) 0 results);
        count "sim.compactions" (List.fold_left (fun a t -> a + t.Layer.compactions) 0 traced);
        m "runner.settle_ms" (1000. *. sumf (fun t -> t.Layer.settle_s)) "ms";
        m "runner.flap_ms" (1000. *. sumf (fun t -> t.Layer.flap_s)) "ms";
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
        count "damping.reuse_timer_events" (total (fun r -> r.Runner.reuse_timer_events) results);
        m "rib.prefixes_per_router" prefixes_per_router "count";
        m "gc.pause_ms" (Layer.Pauses.total_ms pauses) "ms";
        m "gc.pause_max_ms" (Layer.Pauses.max_ms pauses) "ms";
      ] )
  in
  let traced_wall, failed, problems, traced_note, layers = layer_metrics () in
  let untraced_wall = (plain_wall +. snd (untraced ())) /. 2. in
  (* RIB memory per router-prefix entry: live heap after convergence with
     the background prefixes, less the same run without them (and with
     its table hint cut by as much), over the entries they add. *)
  let rib =
    match batch with
    | Single s when s.Scenario.background_prefixes > 0 ->
        let bare =
          {
            s with
            Scenario.background_prefixes = 0;
            config =
              {
                s.config with
                Config.prefix_table_hint = s.config.Config.prefix_table_hint - s.background_prefixes;
              };
          }
        in
        let words, entries = Layer.rib_at_settle s in
        let words0, entries0 = Layer.rib_at_settle bare in
        [
          m "rib.live_kb_per_entry"
            (float_of_int ((words - words0) * (Sys.word_size / 8))
            /. 1024.
            /. float_of_int (entries - entries0))
            "kB";
        ]
    | _ -> []
  in
  let pool =
    match batch with
    | Single _ -> []
    | Plan p ->
        Gc.compact ();
        let sequential = Sweep.execute ~jobs:1 p in
        agree "sequential" sequential;
        [
          m "pool.busy_share" (Layer.sum run_walls /. (float_of_int jobs *. plain_wall)) "ratio";
          m "pool.run_inflation"
            (Layer.median run_walls /. Layer.median (List.map (fun r -> r.Runner.wall_seconds) sequential))
            "ratio";
        ]
  in
  {
    attempted = (match batch with Plan _ -> 5 | Single _ -> 4) * runs batch;
    failed = (if !mismatches = [] then failed else runs batch);
    problems = problems @ !mismatches;
    metrics =
      layers @ rib @ pool
      @ [
          m "topology.build_ms" (1000. *. setup_wall) "ms";
          m "gc.minor_words" gc.Layer.minor_words "words";
          count "gc.major_collections" gc.major_collections;
          m "trace.overhead_pct" (100. *. ((traced_wall /. untraced_wall) -. 1.)) "%";
        ];
    notes =
      [
        Printf.sprintf "%s untraced digest=%s untraced wall=%.3fs (mean of 2) traced wall=%.3fs" traced_note
          reference untraced_wall traced_wall;
      ];
  }
